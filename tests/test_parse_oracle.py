"""``qexp.parse`` against the reference reader in ``qexp_oracle``: for every
mutated text, the same form (fields, support order and int entries) or a
``QExpError`` with the same message.  The ``QExpansion`` constructor against
the reference checks on drawn supports: the same form, or the same message
and ``key``.

The base texts hold what the grammar allows besides the canonical layout:
coefficient lines before the headers, comments, CRLF line ends, blank and
indented lines, tabs, "+3", "007", "1_0", unreduced and negative entries, a
zero vector and both character tables.  The mutations are seeded, so a
failure reproduces.
"""

import random
from fractions import Fraction

import pytest

import qexp_oracle as oracle
from siegelmodp.qexp import QExpansion, QExpError, parse
from siegelmodp.rep import Weight

VECTOR = "\r\n".join([
    "%SMF v1",
    "",
    "coeff 1 1 1 : 3 +2 007",
    "# a comment : coeff 0 0 0 : 1",
    "  p 7",
    "coeff 0 0 1 : -1 8 1_0",
    "\tN 5",
    "coeff 1 0 0 : 0 0 0",
    "weight 5 3",
    "coeff 2 -1 3 : 14 -7 21",
    "chi1 table:1 2 4 3 1",
    "chi2 table:0 1 6 6 1  ",
    "coeff 3 2 1 :\t1 2 3",
    "",
])
SCALAR = "\n".join([
    "%SMF v1",
    "coeff 0 0 0 : 12",
    "coeff 1 -2 1 : -3",
    "weight 4 4",
    "N 3",
    "coeff 1 0 1 : 0",
    "chi2 table:1 1 1",
    "p 11",
    "chi1 trivial",
    "coeff 2 2 3 : 22",
    "coeff 1 1 1 : 5",
    "",
])
BASES = (VECTOR, SCALAR)

TOKENS = ("", "0", "1", "-1", "+3", "007", "1_0", "_", "2", "3", "5", "6",
          "7", "11", "13", "10" * 12, "-" + "9" * 20, "1.5", "x", "٣", ":",
          "#", "coeff", "p", "N", "weight", "chi1", "chi2", "trivial",
          "table:1", "table:", "%SMF")
CHARS = " \t:#-+_0123456789٣x\r\n"


def _mutate(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0:  # a token replaced, dropped or added
            tokens = lines[i].split(" ")
            j = rng.randrange(len(tokens))
            tokens[j:j + rng.randint(0, 1)] = [rng.choice(TOKENS)]
            lines[i] = " ".join(tokens)
        elif op == 1:  # a character inserted
            j = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:j] + rng.choice(CHARS) + lines[i][j:]
        elif op == 2 and lines[i]:  # a character deleted
            j = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:j] + lines[i][j + 1:]
        elif op == 3:  # a line deleted
            del lines[i]
        elif op == 4:  # a line repeated
            lines.insert(rng.randint(0, len(lines)), lines[i])
        elif op == 5:  # a line moved
            lines.insert(rng.randint(0, len(lines) - 1), lines.pop(i))
        else:  # the text cut short
            lines = lines[:i + 1]
        if not lines:
            lines = [""]
    return "\n".join(lines)


def _outcome(read, text):
    """The form ``read`` returns, as its fields and support in order, or
    the type and message of what it raises."""
    try:
        F = read(text)
    except Exception as err:  # the type is compared too
        return type(err), str(err)
    support = list(F.support.items())
    assert all(type(x) is int for T, vec in support for x in T + vec)
    return F.p, F.N, F.weight, support, F.chi1, F.chi2


def test_bases_parse_as_the_oracle_reads_them():
    for text in BASES:
        got = _outcome(parse, text)
        assert got == _outcome(oracle.parse, text)
        assert got[3]  # each base is a valid form with a support


@pytest.mark.parametrize("seed", range(3))
def test_mutated_texts_parse_as_the_oracle_reads_them(seed):
    rng = random.Random(seed)
    refused = 0
    for _ in range(1000):
        text = _mutate(rng, rng.choice(BASES))
        want = _outcome(oracle.parse, text)
        assert _outcome(parse, text) == want, text
        refused += want[0] is QExpError
    assert 300 < refused < 1000  # both outcomes are well represented


ENTRIES = (0, 1, 6, 7, -1, 30, True, 2.0, Fraction(8, 2), 2.5, "1", None)
INDICES = ((0, 0, 0), (1, 1, 1), (1, -1, 1), (2.0, 0, 1), (True, 0, 1),
           (1.5, 0, 1), (0, 1, 0), (-1, 0, 1), (3, 4, 2))


def _construct(ctor, fields):
    try:
        F = ctor(*fields)
    except QExpError as err:
        return str(err), err.key
    return (F.p, F.N, F.weight, list(F.support.items()), F.chi1, F.chi2)


def test_constructor_checks_as_the_oracle_does():
    """Supports of tuples, lists and odd entries, with a wrong length, an
    odd index or a bad character table now and then."""
    rng = random.Random(7)
    for _ in range(600):
        n = rng.choice((0, 2))
        weight = Weight(4 + n, 4)
        support = {}
        for T in rng.sample(INDICES, rng.randint(0, 4)):
            if rng.random() < 0.7 and T in INDICES[:3]:
                vec = [rng.randrange(7) for _ in range(n + 1)]
            else:
                vec = [rng.choice(ENTRIES)
                       for _ in range(n + 1 + (rng.random() < 0.2))]
            support[T] = tuple(vec) if rng.random() < 0.8 else vec
        chi = rng.choice((None, (1, 1, 1), (1, 2.0, 1), (1, 1), (1, 2.5, 1)))
        fields = (7, 3, weight, support, chi, None)
        want = _construct(oracle.construct, fields)
        assert _construct(QExpansion, fields) == want, fields
